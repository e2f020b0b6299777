package core

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/fault"
	"dejavu/internal/packet"
	"dejavu/internal/scenario"
)

// exitWatch is a fault hook that loses nothing and counts packets
// leaving the switch mid-chain: still carrying an SFC header, or
// through a port the deployment uses for loopback.
type exitWatch struct {
	loops    map[asic.PortID]bool
	midChain atomic.Int64
	emitted  atomic.Int64
}

func (w *exitWatch) OnInject(asic.PortID, *packet.Parsed) error { return nil }

func (w *exitWatch) OnRecirculate(asic.PortID, *packet.Parsed) bool { return true }

func (w *exitWatch) OnEmit(port asic.PortID, pkt *packet.Parsed) bool {
	w.emitted.Add(1)
	if pkt.Valid(packet.HdrSFC) || w.loops[port] {
		w.midChain.Add(1)
	}
	return true
}

// TestLoopbackRotationFollowsSnapshot injects bursts that recirculate
// through pipeline 1's loopback ports while the reconciler takes one of
// them down and brings it back, over and over. The recirculation
// rotation is published in the same snapshot as the ports' loopback
// modes, so no packet, whichever snapshot its burst runs on, may pick a
// port that its snapshot does not have in loopback and leave the
// switch through it mid-chain.
func TestLoopbackRotationFollowsSnapshot(t *testing.T) {
	cfg := edgeConfig()
	w := &exitWatch{loops: map[asic.PortID]bool{}}
	for p := asic.PortID(16); p < 20; p++ {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, p)
		w.loops[p] = true
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Switch.SetFaultHook(w)
	r := NewReconciler(d, 1)

	cycles := 300
	if raceEnabled {
		cycles = 60
	}
	const flapped = asic.PortID(17)
	var stop atomic.Bool
	var delivered, bursts atomic.Int64
	var wg sync.WaitGroup
	// One CPU stays free for the control loop: a burst spinning on
	// every CPU would stall the flaps for whole scheduler slices.
	workers := max(1, runtime.GOMAXPROCS(0)-1)
	for worker := 0; worker < workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tmpl := scenario.InternetBound()
			burst := make([]*packet.Parsed, 32)
			for i := range burst {
				burst[i] = new(packet.Parsed)
			}
			for !stop.Load() {
				for _, p := range burst {
					p.CopyFrom(tmpl)
				}
				res := d.Switch.InjectQuietBatch(scenario.PortClient, burst)
				delivered.Add(int64(res.Delivered))
				bursts.Add(1)
			}
		}()
	}
	for i := 0; i < cycles; i++ {
		// Let bursts run between flaps, so some of them straddle each
		// port-mode change.
		for seen := bursts.Load(); bursts.Load() < seen+2; {
			runtime.Gosched()
		}
		if err := d.Switch.SetPortAdminState(flapped, false); err != nil {
			t.Fatal(err)
		}
		if _, err := r.HandleEvent(fault.Event{Kind: fault.PortDown, Port: flapped}); err != nil {
			t.Fatal(err)
		}
		if err := d.Switch.SetPortAdminState(flapped, true); err != nil {
			t.Fatal(err)
		}
		if _, err := r.HandleEvent(fault.Event{Kind: fault.PortUp, Port: flapped}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	t.Logf("%d cycles, %d bursts, %d packets emitted", cycles, bursts.Load(), w.emitted.Load())
	if n := w.midChain.Load(); n != 0 {
		t.Errorf("%d of %d emitted packets left the switch mid-chain", n, w.emitted.Load())
	}
	if delivered.Load() == 0 {
		t.Error("no packet delivered")
	}
	if got := d.Switch.LoopbackModeOf(flapped); got != asic.LoopbackOnChip {
		t.Errorf("port %d ends in loopback mode %v, want on-chip", flapped, got)
	}
}

// TestReusedVectorIsClassified parses an untagged frame into a vector
// that last held a classified packet and requires the deployment to
// classify and deliver it exactly like a freshly allocated vector.
func TestReusedVectorIsClassified(t *testing.T) {
	d, err := Deploy(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := scenario.InternetBound().Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v *packet.Parsed) (*asic.Trace, []byte) {
		t.Helper()
		if err := v.Parse(frame); err != nil {
			t.Fatal(err)
		}
		tr, err := d.Switch.Inject(scenario.PortClient, v)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped || len(tr.Out) != 1 {
			t.Fatalf("packet not delivered: dropped=%v (%s), %d copies out", tr.Dropped, tr.DropReason, len(tr.Out))
		}
		wire, err := tr.Out[0].Pkt.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr, wire
	}

	reused := new(packet.Parsed)
	run(reused)
	if reused.SFC.ServicePathID == 0 {
		t.Fatal("first packet was not classified; the test needs a vector holding a classified packet")
	}
	got, gotWire := run(reused)
	want, wantWire := run(new(packet.Parsed))
	if got.Path() != want.Path() || got.Out[0].Port != want.Out[0].Port {
		t.Errorf("reused vector: %s out port %d; fresh vector: %s out port %d",
			got.Path(), got.Out[0].Port, want.Path(), want.Out[0].Port)
	}
	if reused.SFC.ServicePathID != scenario.PathBasic {
		t.Errorf("reused vector classified onto path %d, want %d", reused.SFC.ServicePathID, scenario.PathBasic)
	}
	if !bytes.Equal(gotWire, wantWire) {
		t.Errorf("reused vector left as\n%x\nfresh vector as\n%x", gotWire, wantWire)
	}
}
