package route

import (
	"fmt"
	"sort"

	"dejavu/internal/asic"
)

// HopKind classifies a branching-table decision.
type HopKind uint8

// Hop kinds.
const (
	// HopForward sends the packet to a specific egress port (a real
	// exit port or a loopback port toward the next NF's pipeline).
	HopForward HopKind = iota
	// HopResubmit re-enters the same ingress pipe.
	HopResubmit
	// HopToCPU punts the packet: the branching table has no entry for
	// this (path, index) — an unknown service path.
	HopToCPU
)

// Hop is one branching-table decision.
type Hop struct {
	Kind HopKind
	Port asic.PortID // valid when Kind == HopForward
}

// Branching is the runtime form of the branching tables §3.4 installs
// in the last MAU stage of every ingress pipelet. Decisions are a pure
// function of (service path ID, service index, current pipeline,
// already-chosen out port), derived from the chain set and placement,
// so the same structure serves all ingress pipelets.
//
// Like the hardware table, the decision function is compiled: every
// (path, index) resolves to one precomputed slot in a dense table, so
// NextNF and Decide cost two array indexings and no map lookups. The
// table is compiled at construction and again by SetExitPort and
// SetRemote. Like every other routing state, a Branching must be fully
// configured before it is published to a switch (compose.Runtime); the
// setters are not safe against concurrent lookups.
type Branching struct {
	chains    map[uint16]Chain
	placement *Placement
	// exitPort is the static front-panel exit port per chain, used
	// when the chain completes without a dynamically chosen out port
	// and for the Fig. 6(b) direct-exit optimization.
	exitPort map[uint16]asic.PortID
	// loopbackFor, when set, chooses the loopback port used to reach a
	// pipeline's ingress, overriding the switch's rotation (see
	// SetLoopbackChooser).
	loopbackFor func(pipeline int) asic.PortID
	// remote maps NFs hosted on *another switch* (§7 multi-switch
	// chaining) to the local egress port wired toward that switch.
	remote map[string]asic.PortID

	// The compiled table. byPath is indexed by service path ID and
	// holds 1 + the path's row in slots (0: no such chain); a row has
	// one slot per service index 0..len(NFs). nfNames resolves the
	// slots' NF ids (id 0, "", marks a complete chain).
	byPath  []uint16
	slots   [][]slot
	nfNames []string
}

// slotKind classifies a compiled branching slot.
type slotKind uint8

const (
	// slotToCPU punts: the chain is complete with no static exit, or
	// the next NF is neither placed nor remote.
	slotToCPU slotKind = iota
	// slotForward sends the packet out a fixed port: the static exit
	// of a complete chain, or the wire toward a remote NF.
	slotForward
	// slotLocal routes toward the pipelet hosting the next NF.
	slotLocal
)

// slot is the precomputed branching decision for one (path, index).
type slot struct {
	nf   uint16 // id of the next NF (index into nfNames); 0 when complete
	kind slotKind
	// direct marks a slotLocal whose remainder completes in the exit
	// pipeline's egress pipe: the Fig. 6(b) direct exit through port.
	direct bool
	port   asic.PortID    // slotForward, or slotLocal with direct
	pl     asic.PipeletID // slotLocal: the pipelet hosting the next NF
}

// NewBranching builds the branching function for a chain set and
// placement. The placement is read when the table is compiled: a later
// change to it takes effect only once the table is compiled again.
func NewBranching(chains []Chain, p *Placement) (*Branching, error) {
	b := &Branching{
		chains:    make(map[uint16]Chain, len(chains)),
		placement: p,
		exitPort:  make(map[uint16]asic.PortID),
	}
	for _, c := range chains {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := b.chains[c.PathID]; dup {
			return nil, fmt.Errorf("route: duplicate chain path ID %d", c.PathID)
		}
		b.chains[c.PathID] = c
		if c.HasStaticExit() {
			b.exitPort[c.PathID] = c.StaticExitPort
		}
	}
	b.compile()
	return b, nil
}

// compile (re)builds the dense slot table from the chain set,
// placement, exit ports and remote NFs.
func (b *Branching) compile() {
	paths := make([]uint16, 0, len(b.chains))
	maxPath := uint16(0)
	for id := range b.chains {
		paths = append(paths, id)
		if id > maxPath {
			maxPath = id
		}
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
	ids := map[string]uint16{}
	b.nfNames = []string{""}
	b.byPath = make([]uint16, int(maxPath)+1)
	b.slots = make([][]slot, 0, len(paths))
	for _, id := range paths {
		c := b.chains[id]
		row := make([]slot, len(c.NFs)+1)
		for idx := range row {
			row[idx] = b.compileSlot(c, uint8(idx))
			if name, ok := c.NFAt(uint8(idx)); ok {
				if ids[name] == 0 {
					ids[name] = uint16(len(b.nfNames))
					b.nfNames = append(b.nfNames, name)
				}
				row[idx].nf = ids[name]
			}
		}
		b.slots = append(b.slots, row)
		b.byPath[id] = uint16(len(b.slots))
	}
}

// compileSlot resolves everything about (chain, index) that does not
// depend on the packet: the next NF's location and the static-exit and
// Fig. 6(b) direct-exit verdicts.
func (b *Branching) compileSlot(c Chain, index uint8) slot {
	name, ok := c.NFAt(index)
	if !ok {
		// Chain complete: static exit when known, punt otherwise.
		if port, has := b.exitPort[c.PathID]; has {
			return slot{kind: slotForward, port: port}
		}
		return slot{kind: slotToCPU}
	}
	if port, isRemote := b.remote[name]; isRemote {
		return slot{kind: slotForward, port: port}
	}
	pl, placed := b.placement.Of(name)
	if !placed {
		return slot{kind: slotToCPU}
	}
	s := slot{kind: slotLocal, pl: pl}
	// Fig. 6(b) direct exit: the rest of the chain completes within the
	// exit pipeline's egress pipe.
	eg := asic.PipeletID{Pipeline: pl.Pipeline, Dir: asic.Egress}
	if port, has := b.exitPort[c.PathID]; has &&
		c.ExitPipeline == pl.Pipeline &&
		b.placement.ModeOf(eg) != Parallel &&
		remainderCompletesIn(c, b.placement, len(c.NFs)-int(index), eg) {
		s.direct, s.port = true, port
	}
	return s
}

// slotOf returns the compiled slot of (path, index), or nil for an
// unknown path. An index past the chain's initial index reads as a
// complete chain, as Chain.NFAt does.
//
//dv:hotpath
func (b *Branching) slotOf(path uint16, index uint8) *slot {
	if int(path) >= len(b.byPath) || b.byPath[path] == 0 {
		return nil
	}
	row := b.slots[b.byPath[path]-1]
	if int(index) >= len(row) {
		index = 0
	}
	return &row[index]
}

// SetExitPort fixes the static exit port of a chain.
func (b *Branching) SetExitPort(path uint16, port asic.PortID) {
	b.exitPort[path] = port
	b.compile()
}

// SetLoopbackChooser overrides loopback port selection: a loopback hop
// takes the port f returns for the target pipeline. Without a chooser,
// Decide answers with the target's dedicated recirculation port and
// DecideFor draws from the switch snapshot's loopback rotation
// (asic.Ctx.LoopbackPort).
func (b *Branching) SetLoopbackChooser(f func(pipeline int) asic.PortID) { b.loopbackFor = f }

// SetRemote declares that an NF lives on another switch reachable
// through the given local egress port (a back-to-back wire, §7).
// Packets whose next NF is remote are forwarded out that port with the
// SFC header intact; the neighbouring switch's branching tables take
// over.
func (b *Branching) SetRemote(nfName string, port asic.PortID) {
	if b.remote == nil {
		b.remote = make(map[string]asic.PortID)
	}
	b.remote[nfName] = port
	b.compile()
}

// Chain returns the chain with the given path ID.
func (b *Branching) Chain(path uint16) (Chain, bool) {
	c, ok := b.chains[path]
	return c, ok
}

// NextNF returns the name of the NF a packet on (path, index) must
// visit next — the check_nextNF lookup of §3.2.
//
//dv:hotpath
func (b *Branching) NextNF(path uint16, index uint8) (string, bool) {
	id := b.NextNFID(path, index)
	return b.nfNames[id], id != 0
}

// NextNFID is NextNF in the table's own NF numbering: the id of the
// next NF (NFNames resolves it), or 0 when the path is unknown or the
// chain is complete.
//
//dv:hotpath
func (b *Branching) NextNFID(path uint16, index uint8) uint16 {
	if s := b.slotOf(path, index); s != nil {
		return s.nf
	}
	return 0
}

// NFNames returns the NF names indexed by NextNFID's ids; entry 0 is
// the empty name. Callers must not modify it.
func (b *Branching) NFNames() []string { return b.nfNames }

// Decide implements the ingress branching decision for a packet with
// the given SFC state, currently finishing ingress processing on
// pipeline curr. outPort is the packet's platform out port (unset if
// no NF has chosen one yet). A loopback hop takes the installed
// chooser's port, or the target pipeline's recirculation port.
//
//dv:hotpath
func (b *Branching) Decide(path uint16, index uint8, curr int, outPort asic.PortID) Hop {
	return b.DecideFor(nil, path, index, curr, outPort)
}

// DecideFor is Decide for a packet running on a switch: without an
// installed chooser, a loopback hop takes the next port of the
// recirculation rotation published in the packet's own snapshot, so
// the port is in loopback mode for the whole of the packet's life. A
// nil ctx falls back to the recirculation port.
//
//dv:hotpath
func (b *Branching) DecideFor(ctx *asic.Ctx, path uint16, index uint8, curr int, outPort asic.PortID) Hop {
	// "If the outPort of a packet is already set, the branching table
	// will directly forward the packet to the port" (§3.4).
	if outPort != asic.PortUnset {
		return Hop{Kind: HopForward, Port: outPort}
	}
	hop, target := b.route(path, index, curr)
	if target < 0 {
		return hop
	}
	switch {
	case b.loopbackFor != nil:
		hop.Port = b.loopbackFor(target)
	case ctx != nil:
		hop.Port = ctx.LoopbackPort(target)
	default:
		hop.Port = asic.RecircPort(target)
	}
	return hop
}

// route resolves the outPort-unset decision for (path, index) at the
// end of ingress curr. A hop toward another pipeline's ingress comes
// back as HopForward with target >= 0 naming that pipeline: the
// loopback port is chosen per packet, by the caller. target is -1 for
// every other hop.
//
//dv:hotpath
func (b *Branching) route(path uint16, index uint8, curr int) (hop Hop, target int) {
	s := b.slotOf(path, index)
	if s == nil {
		return Hop{Kind: HopToCPU}, -1
	}
	switch s.kind {
	case slotForward:
		return Hop{Kind: HopForward, Port: s.port}, -1
	case slotToCPU:
		return Hop{Kind: HopToCPU}, -1
	}
	if s.pl == (asic.PipeletID{Pipeline: curr, Dir: asic.Ingress}) {
		return Hop{Kind: HopResubmit}, -1
	}
	if s.direct {
		return Hop{Kind: HopForward, Port: s.port}, -1
	}
	return Hop{Kind: HopForward}, s.pl.Pipeline
}

// BranchingEntries returns the number of (path, index) entries the
// branching table holds — its size is known at compile time (§5).
func (b *Branching) BranchingEntries() int {
	n := 0
	for _, c := range b.chains {
		n += len(c.NFs) + 1 // one per index value 0..len
	}
	return n
}

// Chains returns the number of installed chains.
func (b *Branching) Chains() int { return len(b.chains) }
