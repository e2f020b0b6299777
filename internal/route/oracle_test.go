package route

import (
	"fmt"
	"math/rand"
	"testing"

	"dejavu/internal/asic"
)

// mapBranching is the map-based branching function the compiled slot
// table replaced: every lookup goes through the chain map, the
// placement map and the exit-port and remote maps, exactly as the
// decision is specified in §3.4. It is the differential oracle for the
// compiled NextNF and Decide.
type mapBranching struct {
	chains      map[uint16]Chain
	placement   *Placement
	exitPort    map[uint16]asic.PortID
	remote      map[string]asic.PortID
	loopbackFor func(pipeline int) asic.PortID
}

func newMapBranching(chains []Chain, p *Placement) *mapBranching {
	b := &mapBranching{
		chains:      make(map[uint16]Chain, len(chains)),
		placement:   p,
		exitPort:    make(map[uint16]asic.PortID),
		remote:      make(map[string]asic.PortID),
		loopbackFor: asic.RecircPort,
	}
	for _, c := range chains {
		b.chains[c.PathID] = c
		if c.HasStaticExit() {
			b.exitPort[c.PathID] = c.StaticExitPort
		}
	}
	return b
}

func (b *mapBranching) NextNF(path uint16, index uint8) (string, bool) {
	c, ok := b.chains[path]
	if !ok {
		return "", false
	}
	return c.NFAt(index)
}

func (b *mapBranching) Decide(path uint16, index uint8, curr int, outPort asic.PortID) Hop {
	if outPort != asic.PortUnset {
		return Hop{Kind: HopForward, Port: outPort}
	}
	c, ok := b.chains[path]
	if !ok {
		return Hop{Kind: HopToCPU}
	}
	name, ok := c.NFAt(index)
	if !ok {
		if port, has := b.exitPort[path]; has {
			return Hop{Kind: HopForward, Port: port}
		}
		return Hop{Kind: HopToCPU}
	}
	if port, isRemote := b.remote[name]; isRemote {
		return Hop{Kind: HopForward, Port: port}
	}
	pl, placed := b.placement.Of(name)
	if !placed {
		return Hop{Kind: HopToCPU}
	}
	if pl == (asic.PipeletID{Pipeline: curr, Dir: asic.Ingress}) {
		return Hop{Kind: HopResubmit}
	}
	target := pl.Pipeline
	eg := asic.PipeletID{Pipeline: target, Dir: asic.Egress}
	if port, has := b.exitPort[path]; has &&
		c.ExitPipeline == target &&
		b.placement.ModeOf(eg) != Parallel &&
		remainderCompletesIn(c, b.placement, len(c.NFs)-int(index), eg) {
		return Hop{Kind: HopForward, Port: port}
	}
	return Hop{Kind: HopForward, Port: b.loopbackFor(target)}
}

// randomRouting draws a chain set and placement over a small NF
// universe: some NFs unplaced, some remote, some pipelets parallel,
// some chains with static exits.
func randomRouting(rng *rand.Rand, pipelines int) ([]Chain, *Placement, map[string]asic.PortID) {
	universe := make([]string, 4+rng.Intn(8))
	for i := range universe {
		universe[i] = fmt.Sprintf("nf%d", i)
	}
	p := NewPlacement()
	remote := map[string]asic.PortID{}
	for _, name := range universe {
		switch r := rng.Intn(10); {
		case r == 0:
			// unplaced
		case r == 1:
			remote[name] = asic.PortID(1 + rng.Intn(60))
		default:
			p.Assign(name, asic.PipeletID{Pipeline: rng.Intn(pipelines), Dir: asic.Direction(rng.Intn(2))})
		}
	}
	for pipe := 0; pipe < pipelines; pipe++ {
		for _, dir := range []asic.Direction{asic.Ingress, asic.Egress} {
			if rng.Intn(4) == 0 {
				p.SetMode(asic.PipeletID{Pipeline: pipe, Dir: dir}, Parallel)
			}
		}
	}
	used := map[uint16]bool{}
	chains := make([]Chain, 1+rng.Intn(6))
	for i := range chains {
		id := uint16(1 + rng.Intn(400))
		for used[id] {
			id = uint16(1 + rng.Intn(400))
		}
		used[id] = true
		perm := rng.Perm(len(universe))
		nfs := make([]string, 1+rng.Intn(len(universe)))
		for j := range nfs {
			nfs[j] = universe[perm[j]]
		}
		chains[i] = Chain{PathID: id, NFs: nfs, Weight: 1, ExitPipeline: rng.Intn(pipelines)}
		if rng.Intn(2) == 0 {
			chains[i].StaticExitPort = asic.PortID(1 + rng.Intn(60))
		}
	}
	return chains, p, remote
}

// TestCompiledBranchingMatchesMapOracle compares the compiled NextNF
// and Decide with the map-based oracle on every (path, index 0..len+1,
// pipeline, out port set/unset) of randomized chain sets and
// placements, across remote NFs, static exits set at construction and
// later, parallel pipelets and a custom loopback chooser.
func TestCompiledBranchingMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		pipelines := 2 + rng.Intn(3)
		chains, p, remote := randomRouting(rng, pipelines)
		b, err := NewBranching(chains, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o := newMapBranching(chains, p)
		for name, port := range remote {
			b.SetRemote(name, port)
			o.remote[name] = port
		}
		if rng.Intn(2) == 0 {
			c := chains[rng.Intn(len(chains))]
			port := asic.PortID(1 + rng.Intn(60))
			b.SetExitPort(c.PathID, port)
			o.exitPort[c.PathID] = port
		}
		if rng.Intn(2) == 0 {
			chooser := func(pipe int) asic.PortID { return asic.PortID(16*pipe + 3) }
			b.SetLoopbackChooser(chooser)
			o.loopbackFor = chooser
		}
		paths := []uint16{0, 401, 65535}
		for _, c := range chains {
			paths = append(paths, c.PathID)
		}
		for _, path := range paths {
			maxIdx := 2
			if c, ok := o.chains[path]; ok {
				maxIdx = len(c.NFs) + 1
			}
			for idx := 0; idx <= maxIdx; idx++ {
				gotName, gotOK := b.NextNF(path, uint8(idx))
				wantName, wantOK := o.NextNF(path, uint8(idx))
				if gotName != wantName || gotOK != wantOK {
					t.Fatalf("trial %d NextNF(%d, %d) = %q,%v, oracle %q,%v",
						trial, path, idx, gotName, gotOK, wantName, wantOK)
				}
				for pipe := 0; pipe < pipelines; pipe++ {
					for _, out := range []asic.PortID{asic.PortUnset, 9} {
						got := b.Decide(path, uint8(idx), pipe, out)
						want := o.Decide(path, uint8(idx), pipe, out)
						if got != want {
							t.Fatalf("trial %d Decide(%d, %d, %d, %d) = %+v, oracle %+v",
								trial, path, idx, pipe, out, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBranchingLookupAllocBudget holds the compiled lookups to zero
// allocations per packet.
func TestBranchingLookupAllocBudget(t *testing.T) {
	b, err := NewBranching([]Chain{fig6Chain()}, fig6bPlacement())
	if err != nil {
		t.Fatal(err)
	}
	b.SetExitPort(2, 5)
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		h := b.Decide(2, 4, 0, asic.PortUnset)
		name, _ := b.NextNF(2, 4)
		sink += int(h.Port) + len(name)
	}); n != 0 {
		t.Errorf("Decide+NextNF allocate %.1f times per call, want 0", n)
	}
	_ = sink
}
