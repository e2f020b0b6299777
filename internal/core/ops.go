package core

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/compiler"
	"dejavu/internal/ctl"
	"dejavu/internal/fault"
	"dejavu/internal/lint"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
)

// This file implements the operational concerns §7 raises ("service
// upgrade and expansion, failure handling"): live chain updates that
// recompose and atomically swap the pipelet programs on the running
// switch, and loopback-port failure handling with capacity
// re-analysis.

// AddChain introduces a new service chain into the running deployment:
// the placement is extended (existing NFs stay where they are — moving
// a live NF would disrupt its traffic), the pipelet programs are
// recomposed and verified against the stage budget, and the switch is
// updated in place. NF state (sessions, routes, ACLs) is untouched.
func (d *Deployment) AddChain(c route.Chain) error {
	if err := c.Validate(); err != nil {
		return err
	}
	for _, existing := range d.Config.Chains {
		if existing.PathID == c.PathID {
			return fmt.Errorf("core: chain %d already deployed", c.PathID)
		}
	}
	for _, n := range c.NFs {
		if d.Config.NFs.ByName(n) == nil {
			return fmt.Errorf("core: chain %d references unknown NF %q", c.PathID, n)
		}
	}
	newChains := append(append([]route.Chain(nil), d.Config.Chains...), c)

	// Place any NFs the new chain introduces; keep existing locations.
	placement := d.Placement.Clone()
	for _, n := range c.NFs {
		if _, ok := placement.Of(n); ok {
			continue
		}
		if err := d.placeNewNF(placement, newChains, n); err != nil {
			return err
		}
	}
	return d.swap(newChains, placement)
}

// RemoveChain retires a service chain. NFs that no longer appear in
// any chain are removed from the placement.
func (d *Deployment) RemoveChain(pathID uint16) error {
	var newChains []route.Chain
	found := false
	for _, c := range d.Config.Chains {
		if c.PathID == pathID {
			found = true
			continue
		}
		newChains = append(newChains, c)
	}
	if !found {
		return fmt.Errorf("core: chain %d is not deployed", pathID)
	}
	if len(newChains) == 0 {
		return fmt.Errorf("core: refusing to remove the last chain %d", pathID)
	}
	placement := d.Placement.Clone()
	still := make(map[string]bool)
	for _, c := range newChains {
		for _, n := range c.NFs {
			still[n] = true
		}
	}
	for name := range placement.NF {
		if !still[name] {
			delete(placement.NF, name)
		}
	}
	return d.swap(newChains, placement)
}

// placeNewNF greedily chooses the feasible pipelet minimizing the new
// chain set's cost for one unplaced NF.
func (d *Deployment) placeNewNF(placement *route.Placement, chains []route.Chain, name string) error {
	var best asic.PipeletID
	bestSet := false
	var bestCost route.Cost
	for pipe := 0; pipe < d.Config.Prof.Pipelines; pipe++ {
		for _, dir := range []asic.Direction{asic.Ingress, asic.Egress} {
			cand := placement.Clone()
			cand.Assign(name, asic.PipeletID{Pipeline: pipe, Dir: dir})
			// Cost over chains fully placed under cand.
			var ready []route.Chain
			for _, c := range chains {
				ok := true
				for _, n := range c.NFs {
					if _, placed := cand.Of(n); !placed {
						ok = false
						break
					}
				}
				if ok {
					ready = append(ready, c)
				}
			}
			cost, err := route.Evaluate(ready, cand, d.Config.Enter)
			if err != nil {
				continue
			}
			if !bestSet || cost.Less(bestCost) {
				best = asic.PipeletID{Pipeline: pipe, Dir: dir}
				bestCost = cost
				bestSet = true
			}
		}
	}
	if !bestSet {
		return fmt.Errorf("core: no feasible pipelet for new NF %q", name)
	}
	placement.Assign(name, best)
	return nil
}

// derivePlacement extends the running placement to a new chain set the
// way live updates must: existing NFs stay where they are (moving a
// live NF would disrupt its traffic), NFs no chain uses anymore are
// unplaced, and NFs the new set introduces are placed greedily.
func (d *Deployment) derivePlacement(chains []route.Chain) (*route.Placement, error) {
	placement := d.Placement.Clone()
	still := make(map[string]bool)
	for _, c := range chains {
		for _, n := range c.NFs {
			still[n] = true
		}
	}
	for name := range placement.NF {
		if !still[name] {
			delete(placement.NF, name)
		}
	}
	for _, c := range chains {
		for _, n := range c.NFs {
			if d.Config.NFs.ByName(n) == nil {
				return nil, fmt.Errorf("core: chain %d references unknown NF %q", c.PathID, n)
			}
			if _, ok := placement.Of(n); ok {
				continue
			}
			if err := d.placeNewNF(placement, chains, n); err != nil {
				return nil, err
			}
		}
	}
	return placement, nil
}

// Reconfigure transitions the running deployment to an entirely new
// chain set in one hot swap, deriving the placement like
// AddChain/RemoveChain would (existing NFs stay put).
func (d *Deployment) Reconfigure(chains []route.Chain) error {
	if len(chains) == 0 {
		return fmt.Errorf("core: refusing to reconfigure to zero chains")
	}
	for _, c := range chains {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	placement, err := d.derivePlacement(chains)
	if err != nil {
		return err
	}
	return d.swap(chains, placement)
}

// ReconfigureWithPlacement transitions the running deployment to a new
// chain set under an explicitly resolved placement in one hot swap.
// The intent plane uses it when a placement-affecting input changed
// (a placement hint, the optimizer choice): derivePlacement would keep
// live NFs pinned where they are, which is exactly wrong when the
// operator's declared intent is to move them.
func (d *Deployment) ReconfigureWithPlacement(chains []route.Chain, placement *route.Placement) error {
	if len(chains) == 0 {
		return fmt.Errorf("core: refusing to reconfigure to zero chains")
	}
	for _, c := range chains {
		if err := c.Validate(); err != nil {
			return err
		}
		for _, n := range c.NFs {
			if d.Config.NFs.ByName(n) == nil {
				return fmt.Errorf("core: chain %d references unknown NF %q", c.PathID, n)
			}
		}
	}
	return d.swap(chains, placement)
}

// PlanReconfigure dry-runs Reconfigure: it computes the staged rebuild
// against a copy of the deployment's artifact cache and returns the
// build result plus the branching-table delta that a real swap would
// push, leaving the deployment and the switch untouched. This is what
// `dejavu plan -to` prints.
func (d *Deployment) PlanReconfigure(chains []route.Chain) (*pipeline.Result, []route.EntryOp, error) {
	if len(chains) == 0 {
		return nil, nil, fmt.Errorf("core: refusing to plan zero chains")
	}
	placement, err := d.derivePlacement(chains)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipeline.Build(buildInputs(d.Config, chains, placement), d.cache.Clone())
	if err != nil {
		return nil, nil, err
	}
	delta := route.Diff(d.program, res.Program)
	if ws := lint.AnalyzeWriteSet(d.Config.Prof, res.Plans, delta); len(ws.Findings) > 0 {
		// Surface write-set findings in the dry-run's lint report so
		// `dejavu plan -to` shows exactly what swap would reject.
		res.Lint.Findings = append(res.Lint.Findings, ws.Findings...)
		res.Lint.Sort()
	}
	return res, delta, nil
}

// swap rebuilds the deployment for a new chain set + placement through
// the staged incremental pipeline and applies the result to the live
// switch as a minimal delta: the branching-table entry diff plus the
// pipelet programs whose NF sets changed, each written through the
// retrying control-plane driver into a ctl program transaction, then
// committed as ONE atomic snapshot swap ("the data plane programs have
// a much higher loading cost", §7 — so unchanged programs are not
// reloaded). Traffic keeps flowing throughout: a packet in flight
// finishes under the snapshot it started with, and nothing mixes old
// and new state. Before the commit every error simply aborts the
// transaction; if anything fails after it, the prior composed
// deployment is reinstalled wholesale so the switch never runs new
// programs against stale bookkeeping.
func (d *Deployment) swap(chains []route.Chain, placement *route.Placement) error {
	if err := placement.Validate(d.Config.Prof, chains); err != nil {
		return err
	}
	// Build against a clone of the artifact cache and adopt it only on
	// success: a swap that aborts (or rolls back) must leave the cache
	// at the prior generation too, or the next build of the prior state
	// would spuriously miss — breaking the provable no-op re-apply.
	cache := d.cache.Clone()
	res, err := pipeline.Build(buildInputs(d.Config, chains, placement), cache)
	if err != nil {
		return err
	}
	delta := route.Diff(d.program, res.Program)

	// DV009: every branching-entry write must target a table the
	// candidate build actually placed, on a stage the profile has.
	// Rejecting here costs a map lookup per touched pipeline; letting
	// a bad write through costs silently black-holed traffic.
	if ws := lint.AnalyzeWriteSet(d.Config.Prof, res.Plans, delta); ws.HasErrors() {
		return fmt.Errorf("core: update rejected, switch untouched: write-set fails DV009: %s",
			ws.Findings[0].Message)
	}

	// Stage the write-set into a control-plane program transaction.
	// Each write goes through the retrying driver; staging is
	// idempotent, so a committed-but-unacked write retried by the
	// driver is harmless. Until CommitProgram the switch is untouched.
	driver := d.Driver
	if driver == nil {
		driver = fault.NewDriver(d.Controller)
	}
	if err := d.Controller.BeginProgram(); err != nil {
		return err
	}
	abort := func(cause error) error {
		d.Controller.AbortProgram()
		return fmt.Errorf("core: update rejected, switch untouched: %w", cause)
	}
	for _, op := range delta {
		w := ctl.TableWrite{NF: ctl.FrameworkNF, Table: ctl.BranchingTable, Args: []any{op}}
		if err := driver.Apply(w); err != nil {
			return abort(err)
		}
	}
	for _, pl := range res.ChangedFuncs {
		var fn asic.StageFunc
		if pl.Dir == asic.Ingress {
			fn = res.Dep.Ingress[pl.Pipeline]
		} else {
			fn = res.Dep.Egress[pl.Pipeline]
		}
		w := ctl.TableWrite{NF: ctl.FrameworkNF, Table: ctl.PipeletProgramTable, Args: []any{pl, fn}}
		if err := driver.Apply(w); err != nil {
			return abort(err)
		}
	}

	// Commit point: one atomic snapshot swap publishes the staged
	// programs together with the new routing runtime. From here on, any
	// failure rolls the switch back to the prior composed deployment.
	prev := d.composed
	if err := d.Controller.CommitProgram(res.Dep.Runtime); err != nil {
		return abort(err)
	}
	rollback := func(cause error) error {
		if prev == nil {
			return fmt.Errorf("core: update failed with no prior deployment to restore: %w", cause)
		}
		if rbErr := prev.InstallOn(d.Switch); rbErr != nil {
			return fmt.Errorf("core: update failed (%w) AND rollback failed: %v", cause, rbErr)
		}
		return fmt.Errorf("core: update rejected, switch rolled back to prior programs: %w", cause)
	}
	if d.testPostInstall != nil {
		if err := d.testPostInstall(); err != nil {
			return rollback(err)
		}
	}
	d.cache = cache
	d.Config.Chains = chains
	d.Placement = res.Placement
	d.Cost = res.Cost
	d.Plans = res.Plans
	d.Resources = compiler.FrameworkReport(d.Config.Prof, sortedPlans(res.Plans))
	d.ParserStates = res.Dep.Parser.ParseStates()
	d.composed = res.Dep
	d.Chains = chainReports(chains, res.Traversals)
	d.Lint = res.Lint
	d.program = res.Program
	d.LastBuild = res.Info
	d.LastDelta = delta
	d.LastReloads = len(res.ChangedFuncs)
	if d.Rebuild != nil {
		d.Rebuild.ObserveBuild(res.Info.CacheHits, res.Info.CacheMisses, int64(res.Info.Duration))
		d.Rebuild.ObserveSwap(len(delta), len(res.ChangedFuncs))
	}
	return nil
}

// PortDownReport describes the impact of a failed port.
type PortDownReport struct {
	Port asic.PortID
	// WasLoopback reports whether the port carried recirculation
	// bandwidth.
	WasLoopback bool
	// LostLoopbackGbps is the recirculation bandwidth lost.
	LostLoopbackGbps float64
	// AffectedChains lists chains whose static exit port died.
	AffectedChains []uint16
	// RemainingLoopbackGbps is the post-failure recirculation budget.
	RemainingLoopbackGbps float64
	// SustainableOfferedGbps is the offered load the remaining loopback
	// budget sustains losslessly at the deployment's weighted
	// recirculation count.
	SustainableOfferedGbps float64
}

// HandlePortDown processes a front-panel port failure: loopback
// bandwidth is re-budgeted and chains that statically exit through the
// dead port are reported so the operator (or controller) can re-point
// them. A port already handled is rejected — capacity must never be
// decremented twice for one failure.
func (d *Deployment) HandlePortDown(port asic.PortID) (PortDownReport, error) {
	if !d.Config.Prof.ValidPort(port) || asic.IsRecircPort(port) || port == asic.PortCPU {
		return PortDownReport{}, fmt.Errorf("core: port %d is not a front-panel port", port)
	}
	if _, gone := d.dead[port]; gone {
		return PortDownReport{}, fmt.Errorf("core: port %d is already down", port)
	}
	rep := PortDownReport{Port: port}
	if d.dead == nil {
		d.dead = make(map[asic.PortID]deadPort)
	}
	if d.Switch.LoopbackModeOf(port) != asic.LoopbackOff {
		rep.WasLoopback = true
		rep.LostLoopbackGbps = d.Config.Prof.PortGbps
		// Leaving loopback mode also takes the port out of the
		// recirculation rotation, in the same snapshot swap.
		if err := d.Switch.SetLoopback(port, asic.LoopbackOff); err != nil {
			return rep, err
		}
		// Update the capacity bookkeeping.
		var kept []asic.PortID
		for _, p := range d.Config.LoopbackPorts {
			if p != port {
				kept = append(kept, p)
			}
		}
		d.Config.LoopbackPorts = kept
		d.Capacity.LoopbackPorts = len(kept)
		// The failed port no longer serves external traffic either.
		d.Capacity.TotalPorts--
	} else {
		d.Capacity.TotalPorts--
	}
	d.dead[port] = deadPort{wasLoopback: rep.WasLoopback}
	for _, c := range d.Config.Chains {
		if c.StaticExitPort == port {
			rep.AffectedChains = append(rep.AffectedChains, c.PathID)
		}
	}
	rep.RemainingLoopbackGbps = d.LoopbackGbps()
	k := d.WeightedRecirculations()
	if k > 0 {
		rep.SustainableOfferedGbps = rep.RemainingLoopbackGbps / k
	} else {
		rep.SustainableOfferedGbps = d.Capacity.ExternalGbps()
	}
	return rep, nil
}

// PortUpReport describes the effect of a recovered port.
type PortUpReport struct {
	Port asic.PortID
	// RestoredLoopback reports whether the port resumed its
	// recirculation role.
	RestoredLoopback bool
	// RestoredLoopbackGbps is the recirculation bandwidth regained.
	RestoredLoopbackGbps float64
	// RemainingLoopbackGbps is the post-recovery recirculation budget.
	RemainingLoopbackGbps float64
}

// HandlePortUp is the recovery inverse of HandlePortDown: the port
// returns to capacity bookkeeping and, if it carried recirculation
// bandwidth before it died, its loopback mode and place in the
// rotation are restored. Only ports previously taken down by
// HandlePortDown can be brought back.
func (d *Deployment) HandlePortUp(port asic.PortID) (PortUpReport, error) {
	if !d.Config.Prof.ValidPort(port) || asic.IsRecircPort(port) || port == asic.PortCPU {
		return PortUpReport{}, fmt.Errorf("core: port %d is not a front-panel port", port)
	}
	was, gone := d.dead[port]
	if !gone {
		return PortUpReport{}, fmt.Errorf("core: port %d is not down", port)
	}
	rep := PortUpReport{Port: port}
	if was.wasLoopback {
		if err := d.Switch.SetLoopback(port, asic.LoopbackOnChip); err != nil {
			return rep, err
		}
		rep.RestoredLoopback = true
		rep.RestoredLoopbackGbps = d.Config.Prof.PortGbps
		d.Config.LoopbackPorts = append(d.Config.LoopbackPorts, port)
		d.Capacity.LoopbackPorts = len(d.Config.LoopbackPorts)
	}
	d.Capacity.TotalPorts++
	delete(d.dead, port)
	rep.RemainingLoopbackGbps = d.LoopbackGbps()
	return rep, nil
}

// DeadPorts returns the ports currently taken out by HandlePortDown,
// in ascending order.
func (d *Deployment) DeadPorts() []asic.PortID {
	out := make([]asic.PortID, 0, len(d.dead))
	for p := range d.dead {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
