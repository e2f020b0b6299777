package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/ctl"
	"dejavu/internal/intent"
	"dejavu/internal/nsh"
	"dejavu/internal/packet"
	"dejavu/internal/telemetry"
)

// workerPorts are the front-panel ports of the entry pipeline that
// datapath workers inject on, one each: every port of pipeline 0 except
// the sentinel port 0, the three chain exits and the static exit.
var workerPorts = []asic.PortID{2, 3, 4, 6, 7, 10, 11, 12, 13, 14, 15}

// worker is one closed-loop traffic source: it parses a burst of frames
// from its ring, injects it through the quiet batched path, services
// punts, serializes what left the switch and checks it.
type worker struct {
	id   int
	port asic.PortID
	ring *ring
	pos  int
	chk  *checker

	pkts []*packet.Parsed
	outs [][]byte
	punt [burstSize]bool
	buf  []byte
	// relearn allows established flows to punt: after a redeploy the
	// fresh load balancer learns its sessions again.
	relearn bool
	// faultLoss allows packets to be lost to a port the control script
	// failed, until the reconciler reacts (reconfig).
	faultLoss bool

	// churned rings: fresh flows for the passes still to come
	fresh []flow
	// rot, when set, starts every pass over the ring at a seeded random
	// offset, so burst boundaries move and a run sees many more distinct
	// bursts than the ring holds. Churned rings keep their layout.
	rot    *rand.Rand
	shift  int
	cur    [burstSize][]byte
	curExp [burstSize]frameExp

	// Tallies.
	packets, failed, toCPU int64
	lost                   int64    // attributed to failed ports
	expTx                  [3]int64 // delivered per class = per exit port
	bursts                 []burstRec
	// clock0 and offset place this epoch's bursts on the window's clock.
	clock0            time.Time
	offset            int64
	failures          []string
	recirc, latencyNs int64
}

func newWorker(id int, port asic.PortID, r *ring, chk *checker) *worker {
	w := &worker{id: id, port: port, ring: r, chk: chk, buf: make([]byte, 0, 256)}
	w.pkts = make([]*packet.Parsed, burstSize)
	w.outs = make([][]byte, burstSize)
	for i := range w.pkts {
		w.pkts[i] = new(packet.Parsed)
		w.outs[i] = make([]byte, 0, 256)
	}
	return w
}

func (w *worker) fail(n int64, format string, args ...any) {
	w.failed += n
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf("worker %d: ", w.id)+fmt.Sprintf(format, args...))
	}
}

// nextPass renumbers a churned ring's flow slots before a pass over it
// starts, reporting false when the epoch's flows are used up.
func (w *worker) nextPass() bool {
	if w.ring.slotFrames == nil {
		return true
	}
	n := len(w.ring.slotFrames)
	if len(w.fresh) < n {
		return false
	}
	w.ring.renumber(w.fresh[:n])
	w.fresh = w.fresh[n:]
	return true
}

// burst runs one 64-frame burst against d. With tr non-nil every call
// into a layer is a span; req identifies the burst.
func (w *worker) burst(d *core.Deployment, tr *tracer, req int64) {
	if w.pos == 0 {
		if !w.nextPass() {
			return
		}
		if w.rot != nil {
			w.shift = w.rot.Intn(len(w.ring.frames))
		}
	}
	n := len(w.ring.frames)
	for i := range w.cur {
		j := (w.shift + w.pos + i) % n
		w.cur[i], w.curExp[i] = w.ring.frames[j], w.ring.exp[j]
	}
	frames, exps := w.cur[:], w.curExp[:]
	w.pos = (w.pos + burstSize) % n

	cpu0 := threadCPU()
	var ts [6]int64
	if tr != nil {
		ts[0] = tr.now()
	}
	for i, f := range frames {
		// Parse resets only validity bits and payload; a reused vector
		// keeps the previous packet's SFC fields, which compose reads to
		// recognise unclassified packets. Every frame gets a zeroed one.
		*w.pkts[i] = packet.Parsed{}
		if err := w.pkts[i].Parse(f); err != nil {
			w.fail(1, "parse: %v", err)
		}
	}
	if tr != nil {
		ts[1] = tr.now()
	}
	br := d.Switch.InjectQuietBatch(w.port, w.pkts)
	if tr != nil {
		ts[2] = tr.now()
	}
	traces, perr := d.Controller.Poll()
	if tr != nil {
		ts[3] = tr.now()
	}
	for i := range w.pkts {
		// A punted packet stays behind with the LB's toCpu flag set; its
		// copy reaches the controller and comes back through Poll.
		w.punt[i] = w.pkts[i].SFC.Meta.Has(nsh.FlagToCPU)
		if e := exps[i]; e.cls != clsDrop && !w.punt[i] {
			var err error
			if w.outs[i], err = w.pkts[i].Serialize(w.outs[i][:0]); err != nil {
				w.outs[i] = w.outs[i][:0]
			}
		}
	}
	if tr != nil {
		ts[4] = tr.now()
	}

	var expDrop, punts, lost int
	for i, e := range exps {
		switch {
		case e.cls == clsDrop:
			expDrop++
		case w.punt[i]:
			punts++
			w.expTx[e.cls]++
			if e.cls != clsFull || !(e.punt || w.relearn) {
				w.fail(1, "%s frame %d: punted although its session is installed", classNames[e.cls], i)
			}
		case e.punt:
			w.expTx[e.cls]++
			w.fail(1, "frame %d: a new flow's first packet hit lb_session", i)
		case w.faultLoss && w.pkts[i].Valid(packet.HdrSFC):
			// Never reached the router: lost to a failed port before the
			// reconciler took it out of rotation. verifyTotals requires the
			// switch to attribute exactly these drops to dead ports.
			lost++
		default:
			w.expTx[e.cls]++
			if !w.chk.frame(w.outs[i], e) {
				w.fail(1, "%s frame %d: wrong output", classNames[e.cls], i)
			}
		}
	}
	w.lost += int64(lost)
	for _, t := range traces {
		if w.faultLoss && t.Dropped && (t.DropCode == telemetry.DropRecircDead || t.DropCode == telemetry.DropPortDown) {
			w.lost++ // the reinjected copy met a failed port
			w.expTx[clsFull]--
			continue
		}
		if !w.chk.reinjected(t, w.buf) {
			w.fail(1, "reinjected punt: wrong output (dropped=%v %q, %d copies out)", t.Dropped, t.DropReason, len(t.Out))
		}
	}
	if perr != nil {
		w.fail(1, "controller poll: %v", perr)
	}
	if br.Errors != 0 {
		w.fail(int64(br.Errors), "%d injection errors: %v", br.Errors, br.Err)
	}
	// Packets lost to failed ports are drops too, but whether they really
	// were dropped (rather than sent out mid-chain) is settled over the
	// whole window against the switch's attributed drops.
	if br.Dropped < expDrop || br.Dropped > expDrop+lost {
		w.fail(absDiff(br.Dropped, expDrop), "dropped %d, scenario drops %d (plus at most %d lost to failed ports)", br.Dropped, expDrop, lost)
	}
	if br.ToCPU != punts {
		w.fail(absDiff(br.ToCPU, punts), "switch punted %d, %d packets carry the punt flag", br.ToCPU, punts)
	}
	w.packets += int64(len(frames))
	w.toCPU += int64(br.ToCPU)
	w.recirc += int64(br.Recirculations)
	w.latencyNs += int64(br.Latency)
	for _, t := range traces {
		w.recirc += int64(t.Recirculations)
		w.latencyNs += int64(t.Latency)
	}
	if tr != nil {
		ts[5] = tr.now()
		keep := tr.keep(req)
		root := tr.record("burst", -1, req, ts[0], ts[5], ts[5]-ts[0], keep)
		names := [...]string{"packet.parse", "asic.inject", "ctl.poll", "packet.serialize", "bench.check"}
		for i, name := range names {
			tr.record(name, root, req, ts[i], ts[i+1], 0, keep)
		}
	}
	cpu := threadCPU() - cpu0
	w.bursts = append(w.bursts, burstRec{end: w.offset + int64(time.Since(w.clock0)), cpu: cpu, pkts: int64(len(frames))})
}

// burstRec is one serviced burst: when it ended on the window's clock,
// the worker thread's CPU time it took, and how many packets it carried.
type burstRec struct {
	end, cpu, pkts int64
}

func absDiff(a, b int) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

// tracked is a deployment that carried measured traffic, with the
// counters it started from.
type tracked struct {
	d     *core.Deployment
	tx0   [3]uint64
	st0   ctl.Stats
	dead0 uint64
}

// deadPortDrops counts the drops the switch attributes to failed ports.
func deadPortDrops(d *core.Deployment) uint64 {
	if d.Datapath == nil {
		return 0
	}
	drops := d.Datapath.Snapshot().Drops
	return drops[telemetry.DropRecircDead] + drops[telemetry.DropPortDown]
}

// dpResult is what one datapath phase measured.
type dpResult struct {
	windowNs int64
	packets  int64
	mpps     float64 // median over the window's slices
	burstP99 float64 // µs, lower quartile over the window's slices
	// per-slice series behind the two figures
	sliceMpps, sliceP99 []float64
	failed              int64
	toCPU               int64
	lost                int64 // packets lost to failed ports before the reconciler reacted
	handled             int64
	reinject            int64
	sessions            int64
	failures            []string
}

// add folds another window's result into r (the slice series are not
// kept: only the traced run combines windows, and it reports neither).
func (r *dpResult) add(o dpResult) {
	r.windowNs += o.windowNs
	r.packets += o.packets
	r.failed += o.failed
	r.toCPU += o.toCPU
	r.lost += o.lost
	r.handled += o.handled
	r.reinject += o.reinject
	r.sessions += o.sessions
	r.failures = append(r.failures, o.failures...)
}

// env is one set-up workload: the deployment traffic runs on, the
// workers and their rings, and the control plane.
type env struct {
	wl      *workload
	seed    int64
	chk     *checker
	app     *intent.Applier
	dep     atomic.Pointer[core.Deployment]
	flows   []flow
	workers []*worker
	ctl     *controlPlane

	// fresh marks a deployment that has not carried churned traffic
	// yet; churnUsed holds the session hashes it already installed.
	fresh     bool
	churnUsed map[uint32]bool
	epoch     int

	// simRing is the seed's fixed simulation packet set.
	simRing *ring
	// Warm-up traffic during set-up is checked like measured traffic.
	warmPackets, warmFailed int64
	warmFailures            []string

	trackMu sync.Mutex
	tracked []tracked
	carried carried

	// inflight is held shared by every burst that runs alongside the
	// control script; the script holds it exclusively while a loopback
	// port returns to the recirculation rotation (see op.grace).
	inflight sync.RWMutex

	// fullEpoch is flowchurn's first epoch that used up all its flows.
	fullEpoch *intent.Applier
}

// carried sums what retired deployments carried during a window.
type carried struct {
	tx                           [3]int64
	deadDrops, handled, reinject int64
	sessions, leftInQueue        int64
}

// retire drains d's CPU queue, folds the counters it carried since it
// was tracked into e.carried and stops tracking it, so a finished
// flowchurn epoch's deployment can be collected. nil retires all.
func (e *env) retire(d *core.Deployment) {
	e.trackMu.Lock()
	defer e.trackMu.Unlock()
	kept := e.tracked[:0]
	for _, t := range e.tracked {
		if d != nil && t.d != d {
			kept = append(kept, t)
			continue
		}
		c := &e.carried
		c.leftInQueue += int64(len(t.d.Switch.DrainCPU()))
		st := t.d.Controller.Stats()
		c.handled += int64(st.Reinjected-t.st0.Reinjected) + int64(st.Unknown-t.st0.Unknown)
		c.reinject += int64(st.Reinjected - t.st0.Reinjected)
		c.sessions += int64(st.SessionsInstalled - t.st0.SessionsInstalled)
		c.deadDrops += int64(deadPortDrops(t.d) - t.dead0)
		for cl := clsFull; cl <= clsBasic; cl++ {
			c.tx[cl] += int64(t.d.Switch.Stats(e.chk.ports[cl]).TxPackets.Load() - t.tx0[cl])
		}
	}
	// The slots past kept still point at retired deployments; clear
	// them so those can be collected.
	clear(e.tracked[len(kept):])
	e.tracked = kept
}

// track registers d as carrying measured traffic from now on.
func (e *env) track(d *core.Deployment) {
	e.trackMu.Lock()
	defer e.trackMu.Unlock()
	for _, t := range e.tracked {
		if t.d == d {
			return
		}
	}
	t := tracked{d: d, st0: d.Controller.Stats(), dead0: deadPortDrops(d)}
	for c := clsFull; c <= clsBasic; c++ {
		t.tx0[c] = d.Switch.Stats(e.chk.ports[c]).TxPackets.Load()
	}
	e.tracked = append(e.tracked, t)
}

// publish makes d the deployment traffic runs on.
func (e *env) publish(d *core.Deployment) {
	if e.dep.Load() != d {
		e.track(d)
		e.dep.Store(d)
	}
}

// deploy applies the workload's base intent through a fresh applier.
func deploy(doc *intent.Document) (*intent.Applier, error) {
	app := intent.NewApplier(nil)
	if _, err := app.Apply(doc.Clone(), intent.Options{}); err != nil {
		return nil, fmt.Errorf("initial apply: %w", err)
	}
	return app, nil
}

// installSessions writes the established flows' lb_session entries
// through the controller's unified table-write API.
func installSessions(d *core.Deployment, flows []flow) error {
	for _, f := range flows {
		if err := d.Controller.Apply(ctl.TableWrite{NF: "lb", Table: "lb_session", Args: []any{f.hash, f.backend}}); err != nil {
			return fmt.Errorf("installing session: %w", err)
		}
	}
	return nil
}

// newEpoch gives flowchurn a fresh deployment and hands every worker
// the flows it may open on it: the session table never overflows.
func (e *env) newEpoch() error {
	if !e.fresh {
		e.retire(e.dep.Load())
		app, err := deploy(e.wl.doc)
		if err != nil {
			return err
		}
		e.app = app
		e.dep.Store(app.Deployment())
		e.churnUsed = make(map[uint32]bool)
	}
	e.fresh = false
	e.epoch++
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(e.epoch)))
	per := churnEpochFlows / len(e.workers)
	for _, w := range e.workers {
		slots := len(w.ring.slotFrames)
		w.fresh = genFlows(rng, per/slots*slots, e.wl.clientBlocks, e.churnUsed)
		w.pos = 0
	}
	return nil
}

// runDatapath runs the closed loop on every worker for seconds of
// measured time and returns the aggregate. Flowchurn measures in epochs
// on fresh deployments; set-up between epochs is outside the window.
// A non-nil alongside runs concurrently with the workers, which keep
// going until it returns, so both share one window.
func (e *env) runDatapath(seconds float64, traced bool, base time.Time, alongside func(deadline time.Time)) (dpResult, []*tracer, error) {
	var res dpResult
	var tracers []*tracer
	for _, w := range e.workers {
		w.packets, w.failed, w.toCPU, w.lost = 0, 0, 0, 0
		w.expTx = [3]int64{}
		// Sized up front so the window itself never grows (and collects) it.
		w.bursts = make([]burstRec, 0, int(seconds*maxBurstsPerSec)+1024)
		w.failures = nil
		var tr *tracer
		if traced {
			tr = newTracer(base, 16)
		}
		tracers = append(tracers, tr)
	}
	e.trackMu.Lock()
	e.tracked, e.carried = nil, carried{}
	e.trackMu.Unlock()

	target := int64(seconds * 1e9)
	var epochStarts []int64
	for res.windowNs < target {
		if e.wl.churn {
			if err := e.newEpoch(); err != nil {
				return res, nil, err
			}
			epochStarts = append(epochStarts, res.windowNs)
		}
		e.track(e.dep.Load())
		deadline := time.Now().Add(time.Duration(target - res.windowNs))
		var wg sync.WaitGroup
		begin := make(chan struct{})
		var sideDone atomic.Bool
		sideDone.Store(alongside == nil)
		if alongside != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				alongside(deadline)
				sideDone.Store(true)
			}()
		}
		for i, w := range e.workers {
			wg.Add(1)
			go func(w *worker, tr *tracer) {
				defer wg.Done()
				// Bursts are timed in this thread's CPU time.
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				<-begin
				req := int64(w.id) << 40
				for {
					if w.pos == 0 && w.ring.slotFrames != nil && len(w.fresh) < len(w.ring.slotFrames) {
						return // epoch's flows used up
					}
					if alongside != nil {
						e.inflight.RLock()
					}
					w.burst(e.dep.Load(), tr, req)
					if alongside != nil {
						e.inflight.RUnlock()
					}
					req++
					if req&7 == 0 && sideDone.Load() && time.Now().After(deadline) {
						return
					}
				}
			}(w, tracers[i])
		}
		start := time.Now()
		for _, w := range e.workers {
			w.clock0, w.offset = start, res.windowNs
		}
		close(begin)
		wg.Wait()
		res.windowNs += int64(time.Since(start))
		if !e.wl.churn {
			break
		}
		if e.fullEpoch == nil && time.Now().Before(deadline) {
			// The first epoch that used up all its flows: its deployment
			// holds a full session table, the same state every run.
			e.fullEpoch = e.app
		}
	}
	bursts := e.verifyTotals(&res)
	res.sliceMpps, res.sliceP99 = sliceStats(bursts, e.sliceBounds(res.windowNs, epochStarts), len(e.workers))
	res.mpps = median(res.sliceMpps)
	res.burstP99 = pctl(res.sliceP99, 0.25)
	return res, tracers, nil
}

// verifyTotals checks what can only be checked over the whole window:
// the CPU queue was fully drained, every punt was handled, and each
// exit port carried exactly the packets the scenario sends there. It
// returns every worker's burst records.
func (e *env) verifyTotals(res *dpResult) (bursts []burstRec) {
	var expTx [3]int64
	for _, w := range e.workers {
		res.packets += w.packets
		res.failed += w.failed
		res.toCPU += w.toCPU
		res.lost += w.lost
		bursts = append(bursts, w.bursts...)
		w.bursts = nil // harness memory: not part of the measured heap
		res.failures = append(res.failures, w.failures...)
		for c := range expTx {
			expTx[c] += w.expTx[c]
		}
	}
	fail := func(n int64, format string, args ...any) {
		res.failed += n
		if len(res.failures) < 16 {
			res.failures = append(res.failures, fmt.Sprintf(format, args...))
		}
	}
	e.retire(nil)
	c := e.carried
	if c.leftInQueue > 0 {
		fail(c.leftInQueue, "%d punted packets left in the CPU queue", c.leftInQueue)
	}
	res.handled, res.reinject, res.sessions = c.handled, c.reinject, c.sessions
	deadDrops, gotTx := c.deadDrops, c.tx
	if deadDrops != res.lost {
		fail(abs64(deadDrops-res.lost), "%d packets never completed their chain but the switch attributes %d drops to failed ports: the rest left the switch mid-chain",
			res.lost, deadDrops)
	}
	if res.handled != res.toCPU {
		fail(abs64(res.handled-res.toCPU), "punts %d != punts handled %d", res.toCPU, res.handled)
	}
	if !e.wl.churn && !e.wl.control && res.toCPU != 0 {
		fail(res.toCPU, "%d punts on a workload whose sessions are all installed", res.toCPU)
	}
	for c := clsFull; c <= clsBasic; c++ {
		if gotTx[c] != expTx[c] {
			fail(abs64(gotTx[c]-expTx[c]), "port %d sent %d packets, scenario sends %d (%s path)",
				e.chk.ports[c], gotTx[c], expTx[c], classNames[c])
		}
	}
	return bursts
}

// maxBurstsPerSec bounds one worker's burst rate, for sizing its
// burst record up front (the fastest workload runs about 7k/s here).
const maxBurstsPerSec = 40000

// slices is how many equal parts the window is split into for the
// throughput and burst-latency medians.
const slices = 8

// sliceStats splits the window at bounds (bursts belong to the slice
// they ended in) and returns each slice's packet rate (Mpps: packets per
// CPU second of the workers, times the worker count) and
// 99th-percentile burst CPU time (µs). The run reports the median rate
// and the lower quartile of the tails: a disturbance on the host that
// spans less than half the slices cannot move the rate, and one that
// spans less than three quarters cannot move the tail. Host
// disturbances only add to a burst's time, and they come and go over
// seconds, while the program's own stalls (collection, hot swaps, punts)
// recur in every slice. CPU time leaves out what the host takes away,
// steal by the hypervisor and other processes included, which wall time
// would count as the program's.
func sliceStats(bursts []burstRec, bounds []int64, workers int) (rates, tails []float64) {
	n := len(bounds) - 1
	pkts := make([]float64, n)
	cpu := make([]float64, n)
	durs := make([][]float64, n)
	for _, b := range bursts {
		i := sort.Search(n, func(i int) bool { return b.end < bounds[i+1] })
		if i >= n || b.end < bounds[0] {
			continue
		}
		pkts[i] += float64(b.pkts)
		cpu[i] += float64(b.cpu)
		durs[i] = append(durs[i], float64(b.cpu)/1e3)
	}
	for i := range pkts {
		if cpu[i] > 0 {
			rates = append(rates, pkts[i]*1e3/cpu[i]*float64(workers))
			tails = append(tails, quantile(durs[i], 0.99))
		}
	}
	return rates, tails
}

// sliceBounds returns the slice boundaries of a window: eight equal
// slices, or for flowchurn its epochs, each a fresh deployment filled
// from empty to 60k sessions. The last epoch, cut short by the
// deadline, is dropped when a whole one exists.
func (e *env) sliceBounds(windowNs int64, epochStarts []int64) []int64 {
	if e.wl.churn && len(epochStarts) > 0 {
		b := append(append([]int64(nil), epochStarts...), windowNs)
		if len(b) > 2 {
			b = b[:len(b)-1]
		}
		return b
	}
	b := make([]int64, slices+1)
	for i := range b {
		b[i] = windowNs * int64(i) / slices
	}
	return b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// simStats are modelled (simulated-time) statistics from a fixed,
// seed-determined packet set: identical for a given seed on any host.
type simStats struct {
	packets    int64
	latencyNs  float64 // mean modelled latency per offered packet
	recircs    float64 // modelled recirculations per offered packet
	toCPURatio float64
	failed     int64
	failures   []string
}

// simPackets is the size of the simulated-statistics packet set.
const simPackets = 8192

// simPass pushes the seed's simulation packet set through the
// deployment single-threaded, via the same burst path the workers use.
func (e *env) simPass(r *ring) simStats {
	w := newWorker(-1, workerPorts[0], r, e.chk)
	if e.wl.churn {
		rng := rand.New(rand.NewSource(e.seed*104729 + 1))
		w.fresh = genFlows(rng, len(r.slotFrames), e.wl.clientBlocks, e.churnUsed)
	}
	d := e.dep.Load()
	var toCPU int64
	for n := 0; n < len(r.frames); n += burstSize {
		w.burst(d, nil, 0)
		toCPU = w.toCPU
	}
	if left := len(d.Switch.DrainCPU()); left > 0 {
		w.fail(int64(left), "%d punts left after the simulation pass", left)
	}
	return simStats{
		packets:    w.packets,
		latencyNs:  ratio(float64(w.latencyNs), float64(w.packets)),
		recircs:    ratio(float64(w.recirc), float64(w.packets)),
		toCPURatio: ratio(float64(toCPU), float64(w.packets)),
		failed:     w.failed,
		failures:   w.failures,
	}
}
