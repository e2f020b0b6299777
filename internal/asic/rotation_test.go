package asic

import "testing"

// snapshotCtx returns a context bound to the switch's current snapshot,
// the way the inject paths bind one per packet.
func snapshotCtx(s *Switch) *Ctx { return &Ctx{loops: s.snap.Load().loops} }

// TestLoopbackPortRotation checks the snapshot-published recirculation
// rotation: it round-robins over a pipeline's loopback ports, falls
// back to the dedicated recirculation port, and a context keeps the
// rotation of the snapshot it was bound to while writers change port
// modes.
func TestLoopbackPortRotation(t *testing.T) {
	s := New(Wedge100B())
	if got := snapshotCtx(s).LoopbackPort(1); got != RecircPort(1) {
		t.Fatalf("no loopback ports: got port %d, want recirculation port %d", got, RecircPort(1))
	}
	for _, p := range []PortID{18, 16} {
		if err := s.SetLoopback(p, LoopbackOnChip); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotCtx(s)
	var got []PortID
	for i := 0; i < 4; i++ {
		got = append(got, before.LoopbackPort(1))
	}
	if want := []PortID{16, 18, 16, 18}; !equalPorts(got, want) {
		t.Errorf("rotation = %v, want %v", got, want)
	}
	if p := before.LoopbackPort(0); p != RecircPort(0) {
		t.Errorf("pipeline 0 has no loopback ports but rotated to %d", p)
	}

	if err := s.SetLoopback(16, LoopbackOff); err != nil {
		t.Fatal(err)
	}
	after := snapshotCtx(s)
	for i := 0; i < 3; i++ {
		if p := after.LoopbackPort(1); p != 18 {
			t.Errorf("after port 16 left loopback: rotated to %d, want 18", p)
		}
	}
	// The older context still sees the rotation its snapshot published.
	seen := map[PortID]bool{}
	for i := 0; i < 4; i++ {
		seen[before.LoopbackPort(1)] = true
	}
	if !seen[16] || !seen[18] {
		t.Errorf("context of the older snapshot lost its rotation: saw %v", seen)
	}
}

// TestLoopbackPortRecirculates runs packets through a program that
// recirculates via the rotation and checks the traffic spreads over
// both loopback ports.
func TestLoopbackPortRecirculates(t *testing.T) {
	s := New(Wedge100B())
	for _, p := range []PortID{16, 17} {
		if err := s.SetLoopback(p, LoopbackOnChip); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InstallIngress(0, func(c *Ctx) { c.Meta.OutPort = c.LoopbackPort(1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallIngress(1, func(c *Ctx) { c.Meta.OutPort = 3 }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		q, err := s.InjectQuiet(0, testPacket())
		if err != nil || q.Dropped || q.Recirculations != 1 {
			t.Fatalf("packet %d: %+v, %v", i, q, err)
		}
	}
	for _, p := range []PortID{16, 17} {
		if n := s.Stats(p).RxPackets.Load(); n != 2 {
			t.Errorf("loopback port %d carried %d recirculations, want 2", p, n)
		}
	}
}

// TestLoopbackPortAllocBudget holds the rotation choice to zero
// allocations.
func TestLoopbackPortAllocBudget(t *testing.T) {
	s := New(Wedge100B())
	if err := s.SetLoopback(16, LoopbackOnChip); err != nil {
		t.Fatal(err)
	}
	ctx := snapshotCtx(s)
	var sink PortID
	if n := testing.AllocsPerRun(1000, func() { sink += ctx.LoopbackPort(1) }); n != 0 {
		t.Errorf("LoopbackPort allocates %.1f times per call, want 0", n)
	}
	_ = sink
}

func equalPorts(a, b []PortID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
